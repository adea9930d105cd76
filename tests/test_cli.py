from __future__ import annotations

import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from modelsync import cli
from modelsync.cli import REPORT_JSON_SCHEMA, main
from modelsync.config import Config, load_config
from modelsync.errors import ConfigError
from modelsync.model import model_equal
from modelsync.plantuml import parse_plantuml
from modelsync.pycode import parse_code

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

@pytest.fixture()
def pair(tmp_path, drifted_model_text, drifted_code_text):
    model = tmp_path / "model.puml"
    code = tmp_path / "code.py"
    model.write_text(drifted_model_text, encoding="utf-8")
    code.write_text(drifted_code_text, encoding="utf-8")
    return model, code


@pytest.fixture()
def clean_pair(tmp_path, v1_model_text):
    from modelsync.pycode import render_code_skeleton
    model = tmp_path / "model.puml"
    code = tmp_path / "code.py"
    model.write_text(v1_model_text, encoding="utf-8")
    code.write_text(render_code_skeleton(parse_plantuml(v1_model_text)),
                    encoding="utf-8")
    return model, code


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_clean_pair_exits_zero(capsys, clean_pair):
    model, code = clean_pair
    status, out, _ = run(capsys, "check", model, code)
    assert status == 0
    assert "consistent" in out


def test_check_drifted_pair_exits_one(capsys, pair):
    model, code = pair
    status, out, _ = run(capsys, "check", model, code)
    assert status == 1
    assert "getNamae" in out
    assert "choose either correction" in out


def test_check_missing_file_exits_three(capsys, tmp_path, pair):
    model, _ = pair
    status, _, err = run(capsys, "check", model, tmp_path / "absent.py")
    assert status == 3
    assert "i/o error" in err


def test_check_parse_error_exits_two(capsys, tmp_path, pair):
    _, code = pair
    bad = tmp_path / "bad.puml"
    bad.write_text("@startuml\nclass A {\n  ???\n}\n@enduml\n",
                   encoding="utf-8")
    status, _, err = run(capsys, "check", bad, code)
    assert status == 2
    assert "bad.puml" in err and ":3" in err


def test_check_rejects_a_deeply_nested_type_at_its_line(capsys, tmp_path,
                                                       pair):
    # each [] used to cost a frame: a RecursionError traceback, exit 1
    _, code = pair
    bad = tmp_path / "bad.puml"
    bad.write_text("@startuml\nclass A {\n  +x: int" + "[]" * 2000
                   + "\n}\n@enduml\n", encoding="utf-8")
    status, _, err = run(capsys, "check", bad, code)
    assert status == 2
    assert f"{bad}:3" in err and "nested in 2000 collections" in err


def test_check_names_the_line_of_an_undeclared_endpoint(capsys, tmp_path,
                                                       pair):
    _, code = pair
    bad = tmp_path / "bad.puml"
    bad.write_text("@startuml\nclass A {\n}\n\nA -- B\n@enduml\n",
                   encoding="utf-8")
    status, out, err = run(capsys, "check", bad, code)
    assert status == 2 and out == ""
    assert err == (f"parse error: {bad}:5: relationship endpoint 'B' "
                   "names no class\n")


def test_check_json_validates_against_schema(capsys, pair):
    model, code = pair
    status, out, _ = run(capsys, "check", model, code, "--json")
    assert status == 1
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_JSON_SCHEMA)
    assert payload["version"] == 1
    assert [i["path"] for i in payload["inputs"]] == [str(model), str(code)]
    kinds = {f["kind"] for f in payload["findings"]}
    assert "ConstructorArityMismatch" in kinds
    assert all(f["suggestions"] for f in payload["findings"]
               if f["severity"] == "error")


def test_check_json_deterministic(capsys, pair):
    model, code = pair
    _, first, _ = run(capsys, "check", model, code, "--json")
    _, second, _ = run(capsys, "check", model, code, "--json")
    assert first == second


def test_sync_code_wins_writes_corrected_model(capsys, tmp_path, pair):
    model, code = pair
    out_dir = tmp_path / "out"
    status, out, _ = run(capsys, "sync", model, code,
                         "--policy", "code-wins", "--out-dir", out_dir)
    assert status == 0
    corrected = (out_dir / "model.puml").read_text(encoding="utf-8")
    assert "+getName(): String" in corrected
    assert (out_dir / "code.py").read_text(encoding="utf-8") == \
        code.read_text(encoding="utf-8")
    assert "applied" in out


def test_sync_consistent_pair_outputs_identical(capsys, tmp_path,
                                                clean_pair):
    model, code = clean_pair
    out_dir = tmp_path / "out"
    status, out, _ = run(capsys, "sync", model, code,
                         "--policy", "union", "--out-dir", out_dir)
    assert status == 0
    assert "unchanged" in out
    assert (out_dir / "model.puml").read_bytes() == model.read_bytes()
    assert (out_dir / "code.py").read_bytes() == code.read_bytes()


def test_sync_in_place_overwrites(capsys, pair):
    model, code = pair
    status, _, _ = run(capsys, "sync", model, code,
                       "--policy", "model-wins", "--in-place")
    assert status == 0
    assert "def getNamae(self):" in code.read_text(encoding="utf-8")


def test_sync_union_adds_classes(capsys, tmp_path, v2_model_text,
                                 v2_code_text):
    model = tmp_path / "design.puml"
    code = tmp_path / "impl.py"
    model.write_text(v2_model_text, encoding="utf-8")
    code.write_text(v2_code_text, encoding="utf-8")
    out_dir = tmp_path / "merged"
    status, _, _ = run(capsys, "sync", model, code,
                       "--policy", "union", "--out-dir", out_dir)
    assert status == 0
    merged_code = (out_dir / "impl.py").read_text(encoding="utf-8")
    assert "class CounterStaff:" in merged_code
    merged_model = (out_dir / "design.puml").read_text(encoding="utf-8")
    assert "+addBook(title, author)" in merged_model


def test_sync_outputs_deterministic(capsys, tmp_path, v2_model_text,
                                    v2_code_text):
    model = tmp_path / "design.puml"
    code = tmp_path / "impl.py"
    model.write_text(v2_model_text, encoding="utf-8")
    code.write_text(v2_code_text, encoding="utf-8")
    outputs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        run(capsys, "sync", model, code, "--policy", "union",
            "--out-dir", out_dir)
        outputs.append(((out_dir / "design.puml").read_bytes(),
                        (out_dir / "impl.py").read_bytes()))
    assert outputs[0] == outputs[1]


def test_sync_ask_policy_reads_choices(capsys, monkeypatch, pair):
    model, code = pair
    answers = iter(["1", "s", "s", "s", "s"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    status, out, _ = run(capsys, "sync", model, code,
                         "--policy", "ask", "--in-place")
    # one chosen correction applied; the skipped ones leave findings behind
    assert status == 1
    assert "applied 1 correction(s):" in out


def test_render_canonicalizes(capsys, tmp_path, v1_model_text):
    model = tmp_path / "m.puml"
    model.write_text("junk before\n" + v1_model_text, encoding="utf-8")
    status, out, _ = run(capsys, "render", model)
    assert status == 0
    assert out.startswith("@startuml\n")
    assert "junk" not in out
    assert model_equal(parse_plantuml(out),
                       parse_plantuml(v1_model_text))


def test_extract_emits_model_from_code(capsys, tmp_path, v1_code_text):
    code = tmp_path / "c.py"
    code.write_text(v1_code_text, encoding="utf-8")
    status, out, _ = run(capsys, "extract", code)
    assert status == 0
    extracted = parse_plantuml(out)
    assert {c.name for c in extracted.classes} == \
        {"Library", "User", "UserCard", "Book"}
    assert "+User(name, userCard)" in out


def test_gen_code_emits_skeleton(capsys, tmp_path, v1_model_text):
    model = tmp_path / "m.puml"
    model.write_text(v1_model_text, encoding="utf-8")
    status, out, _ = run(capsys, "gen-code", model)
    assert status == 0
    parsed = parse_code(out).model
    design = parse_plantuml(v1_model_text)
    from modelsync.consistency import check as check_models
    assert check_models(design, parsed).error_findings() == ()


def test_gen_both_from_fixtures(capsys, tmp_path, fixtures_dir,
                                llm_fixtures_dir, v2_model_text):
    req = fixtures_dir / "library_problem.txt"
    status, out, _ = run(capsys, "gen", req, "--what", "both",
                         "--transport", "fixtures",
                         "--fixtures-dir", llm_fixtures_dir,
                         "--out-dir", tmp_path / "gen")
    assert status == 0
    generated = parse_plantuml(
        (tmp_path / "gen" / "model.puml").read_text(encoding="utf-8"))
    assert model_equal(generated, parse_plantuml(v2_model_text))
    code_model = parse_code(
        (tmp_path / "gen" / "code.py").read_text(encoding="utf-8")).model
    assert len(code_model.classes) == 3
    assert "MissingClassInCode" in out or "missing from the code" in out


def test_gen_missing_fixture_exits_four(capsys, tmp_path, llm_fixtures_dir):
    req = tmp_path / "other.txt"
    req.write_text("an entirely different problem", encoding="utf-8")
    status, _, err = run(capsys, "gen", req, "--what", "model",
                         "--transport", "fixtures",
                         "--fixtures-dir", llm_fixtures_dir,
                         "--out-dir", tmp_path)
    assert status == 4
    assert "generation failed" in err


def test_gen_writes_nothing_when_the_code_does_not_parse(
        capsys, tmp_path, fixtures_dir, llm_fixtures_dir):
    import shutil
    broken_dir = tmp_path / "fixtures"
    shutil.copytree(llm_fixtures_dir, broken_dir)
    target = broken_dir / "gen_code.json"
    data = json.loads(target.read_text(encoding="utf-8"))
    # a class header with a base is outside the dialect
    data["response"]["content"] = data["response"]["content"].replace(
        "class Book:", "class Book(Base):", 1)
    target.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "gen"
    status, _, err = run(capsys, "gen", fixtures_dir / "library_problem.txt",
                         "--what", "both", "--transport", "fixtures",
                         "--fixtures-dir", broken_dir, "--out-dir", out_dir)
    assert status == 4
    assert "generated code does not parse" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_gen_sends_no_request_when_out_dir_cannot_be_made(
        capsys, monkeypatch, tmp_path, fixtures_dir, llm_fixtures_dir):
    from modelsync import llm
    sent = []
    monkeypatch.setattr(llm.FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    status, _, err = run(capsys, "gen", fixtures_dir / "library_problem.txt",
                         "--what", "both", "--transport", "fixtures",
                         "--fixtures-dir", llm_fixtures_dir,
                         "--out-dir", blocker / "gen")
    assert status == 3
    assert "i/o error" in err
    assert sent == []


@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
def test_gen_rejects_empty_requirements_before_any_request(
        capsys, monkeypatch, tmp_path, llm_fixtures_dir, text):
    from modelsync import llm
    sent = []
    monkeypatch.setattr(llm.FixtureTransport, "send",
                        lambda self, request: sent.append(request))
    req = tmp_path / "req.txt"
    req.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "gen"
    status, out, err = run(capsys, "gen", req, "--transport", "fixtures",
                           "--fixtures-dir", llm_fixtures_dir,
                           "--out-dir", out_dir)
    assert status == 2
    assert err == f"parse error: {req}: the requirements are empty\n"
    assert out == ""
    assert sent == []
    assert not out_dir.exists()


def test_gen_corrupted_fixture_exits_four(capsys, tmp_path, fixtures_dir,
                                          llm_fixtures_dir):
    import shutil
    corrupted_dir = tmp_path / "fixtures"
    shutil.copytree(llm_fixtures_dir, corrupted_dir)
    target = corrupted_dir / "gen_model.json"
    data = json.loads(target.read_text(encoding="utf-8"))
    data["response"]["content"] = \
        data["response"]["content"].replace("class", "klass", 1)
    target.write_text(json.dumps(data), encoding="utf-8")
    req = fixtures_dir / "library_problem.txt"
    status, _, err = run(capsys, "gen", req, "--what", "model",
                         "--transport", "fixtures",
                         "--fixtures-dir", corrupted_dir,
                         "--out-dir", tmp_path)
    assert status == 4
    assert "does not parse" in err


def _drop(data: dict, *path: str) -> dict:
    inner = data
    for name in path[:-1]:
        inner = inner[name]
    del inner[path[-1]]
    return data


def _set(data: dict, value, *path: str) -> dict:
    inner = data
    for name in path[:-1]:
        inner = inner[name]
    inner[path[-1]] = value
    return data


# each turns the recorded gen_model.json exchange into a malformed one
MALFORMED_FIXTURES = {
    "not-json": lambda d: "{",
    "not-an-object": lambda d: [],
    "no-key": lambda d: _drop(d, "key"),
    "key-not-a-string": lambda d: _set(d, 5, "key"),
    "key-not-the-requests-hash": lambda d: _set(d, "0" * 64, "key"),
    "request-changed": lambda d: _set(d, 5, "request", "messages"),
    "no-request": lambda d: _drop(d, "request"),
    "response-not-an-object": lambda d: _set(d, "text", "response"),
    "no-content": lambda d: _drop(d, "response", "content"),
    "content-not-a-string": lambda d: _set(d, ["x"], "response", "content"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURES))
def test_gen_malformed_fixture_file_exits_four(capsys, tmp_path, fixtures_dir,
                                               llm_fixtures_dir, name):
    import shutil
    bad_dir = tmp_path / "fixtures"
    shutil.copytree(llm_fixtures_dir, bad_dir)
    target = bad_dir / "gen_model.json"
    data = MALFORMED_FIXTURES[name](
        json.loads(target.read_text(encoding="utf-8")))
    target.write_text(data if isinstance(data, str) else json.dumps(data),
                      encoding="utf-8")
    status, out, err = run(capsys, "gen", fixtures_dir / "library_problem.txt",
                           "--transport", "fixtures", "--fixtures-dir",
                           bad_dir, "--out-dir", tmp_path / "gen")
    assert status == 4
    assert out == ""
    assert err.startswith(f"generation failed: bad fixture {target}: ")
    assert not (tmp_path / "gen").exists()


def test_gen_writes_all_or_nothing(capsys, tmp_path, fixtures_dir,
                                   llm_fixtures_dir):
    # code.py leads under a regular file, so staging it fails after the
    # model has been staged
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    out_dir = tmp_path / "gen"
    out_dir.mkdir()
    (out_dir / "code.py").symlink_to(blocker / "sub" / "code.py")
    status, out, err = run(capsys, "gen", fixtures_dir / "library_problem.txt",
                           "--what", "both", "--transport", "fixtures",
                           "--fixtures-dir", llm_fixtures_dir,
                           "--out-dir", out_dir)
    assert status == 3
    assert err.startswith("i/o error: ")
    assert "wrote" not in out
    # no model.puml and no staged temp file
    assert [p.name for p in out_dir.iterdir()] == ["code.py"]


def _count_calls(monkeypatch, name: str, modules) -> list[int]:
    """Count calls of the parser ``name`` through each module's binding."""
    calls = [0]
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("what, plantuml_parses, code_parses",
                         [("model", 2, 0), ("code", 0, 1), ("both", 2, 1)])
def test_gen_parses_each_answer_as_often_as_it_needs(
        capsys, monkeypatch, tmp_path, fixtures_dir, llm_fixtures_dir, what,
        plantuml_parses, code_parses):
    from modelsync import llm
    plantuml = _count_calls(monkeypatch, "parse_plantuml", [llm, cli])
    code = _count_calls(monkeypatch, "parse_code", [llm, cli])
    assert run(capsys, "gen", fixtures_dir / "library_problem.txt",
               "--what", what, "--transport", "fixtures",
               "--fixtures-dir", llm_fixtures_dir,
               "--out-dir", tmp_path / "gen")[0] == 0
    # the model answer, then the rendered text that is written
    assert plantuml == [plantuml_parses]
    # the code answer, once, under the path it is written to
    assert code == [code_parses]


def test_config_defaults():
    cfg = Config()
    assert cfg.name_mode == "canonical"
    assert cfg.rename_threshold == 0.3
    assert cfg.policy == "union"
    assert cfg.preferred_side == "model"


def test_config_file_parsed(tmp_path):
    path = tmp_path / "modelsync.conf"
    path.write_text("# comment\nname_mode = exact\n"
                    "rename_threshold=0.5\n"
                    "type_equivalences = Integer:int, Text:str\n",
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.name_mode == "exact"
    assert cfg.rename_threshold == 0.5
    assert cfg.type_equivalences == (("Integer", "int"), ("Text", "str"))


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "modelsync.conf"
    path.write_text("shiny = yes\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "modelsync.conf"
    path.write_text("rename_threshold = huge\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_cli_config_error_exits_three(capsys, tmp_path, pair):
    model, code = pair
    conf = tmp_path / "c.conf"
    conf.write_text("nonsense = 1\n", encoding="utf-8")
    status, _, err = run(capsys, "check", model, code, "--config", conf)
    assert status == 3
    assert "config error" in err


def test_cli_config_not_utf8_exits_three(capsys, tmp_path, pair):
    model, code = pair
    conf = tmp_path / "c.conf"
    conf.write_bytes(b"name_mode = \xe9\n")
    status, out, err = run(capsys, "check", model, code, "--config", conf)
    assert status == 3
    assert out == ""
    assert err == f"config error: {conf}: not valid UTF-8 at byte 12\n"


@pytest.mark.parametrize("line, message", [
    ("shiny = yes", "unknown key 'shiny'"),
    ("name_mode = shiny", "name_mode must be one of exact, canonical"),
    ("policy = shiny",
     "policy must be one of model-wins, code-wins, union, ask"),
    ("preferred_side = shiny", "preferred_side must be one of model, code"),
    ("rename_threshold = abc", "rename_threshold must be a number"),
    ("rename_threshold = nan", "rename_threshold must be in [0, 1]"),
    ("rename_threshold = 1.5", "rename_threshold must be in [0, 1]"),
    ("type_equivalences = Integer",
     "type equivalence 'Integer' is not of the form a:b"),
    ("type_equivalences = Text:str, :int",
     "type equivalence ':int' has empty names"),
] + [(f"{key} =", f"{key} needs a value")  # an empty fixtures_dir is '.'
     for key in Config._fields if key != "type_equivalences"])
def test_cli_config_refusal_names_its_line_and_exits_three(
        capsys, tmp_path, pair, line, message):
    model, code = pair
    conf = tmp_path / "c.conf"
    conf.write_text(f"# first\n{line}\n", encoding="utf-8")
    status, out, err = run(capsys, "check", model, code, "--config", conf)
    assert (status, out) == (3, "")
    assert err == f"config error: {conf}:2: {message}\n"


def test_config_empty_type_equivalences_add_no_pairs(tmp_path):
    path = tmp_path / "modelsync.conf"
    path.write_text("type_equivalences =\n", encoding="utf-8")
    assert load_config(path) == Config()


def test_cli_config_refuses_a_repeated_key_at_its_second_line(
        capsys, tmp_path, pair):
    model, code = pair
    conf = tmp_path / "c.conf"
    conf.write_text("policy = model-wins\n# again\npolicy = code-wins\n",
                    encoding="utf-8")
    status, out, err = run(capsys, "check", model, code, "--config", conf)
    assert (status, out) == (3, "")
    assert err == (f"config error: {conf}:3: key 'policy' already set at "
                   f"line 1\n")


def test_config_applies_a_valid_value_of_every_key(tmp_path):
    path = tmp_path / "modelsync.conf"
    path.write_text("name_mode = exact\nrename_threshold = 0.75\n"
                    "type_equivalences = Integer:int\npolicy = code-wins\n"
                    "preferred_side = code\nfixtures_dir = other/llm\n"
                    "llm_endpoint = http://localhost:1/v1\n"
                    "llm_model = other-model\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg == Config("exact", 0.75, (("Integer", "int"),), "code-wins",
                         "code", "other/llm", "http://localhost:1/v1",
                         "other-model")
    # no field kept its default, so every key was applied
    assert all(value != default for value, default in zip(cfg, Config()))


def test_cli_threshold_flag_overrides(capsys, tmp_path, v1_model_text):
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text("@startuml\nclass A {\n  +fetchRecord()\n}\n@enduml\n",
                     encoding="utf-8")
    code.write_text("class A:\n    def storeValue(self):\n        pass\n",
                    encoding="utf-8")
    status, out, _ = run(capsys, "check", model, code,
                         "--rename-threshold", "0.9")
    assert status == 1
    assert "likely corresponds" in out


@pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
def test_cli_threshold_out_of_range_exits_three(capsys, tmp_path, pair,
                                                value):
    model, code = pair
    status, out, err = run(capsys, "check", model, code,
                           "--rename-threshold", value)
    assert status == 3
    assert "--rename-threshold" in err
    assert out == ""


def _count_analyses(monkeypatch) -> list[int]:
    from modelsync import consistency
    calls = [0]
    original = consistency.match_models

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(consistency, "match_models", counting)
    return calls


def test_each_command_analyses_the_pair_once(capsys, monkeypatch, tmp_path,
                                             pair, fixtures_dir,
                                             llm_fixtures_dir):
    model, code = pair
    calls = _count_analyses(monkeypatch)
    assert run(capsys, "check", model, code)[0] == 1
    assert calls == [1]

    calls[0] = 0
    assert run(capsys, "sync", model, code, "--policy", "model-wins",
               "--out-dir", tmp_path / "out")[0] == 0
    assert calls == [2]  # the analysis, then the re-check of the outputs

    calls[0] = 0
    assert run(capsys, "gen", fixtures_dir / "library_problem.txt",
               "--what", "both", "--transport", "fixtures",
               "--fixtures-dir", llm_fixtures_dir,
               "--out-dir", tmp_path / "gen")[0] == 0
    assert calls == [1]


OVERLOAD_CODE = """class A:
    def go(self, x: int):
        return x

    def go(self, x: int, y: str):
        return y
"""
KEPT_OVERLOAD = "    def go(self, x: int):\n        return x\n"
OVERLOAD_MODELS = {
    # go/2 exists in the code only
    "missing": "@startuml\nclass A {\n  +go(x: int)\n}\n@enduml\n",
    # go/2 exists on both sides with a different type for y
    "mistyped": "@startuml\nclass A {\n  +go(x: int)\n"
                "  +go(x: int, y: int)\n}\n@enduml\n",
}


@pytest.mark.parametrize("policy", ["model-wins", "code-wins", "union"])
@pytest.mark.parametrize("case", sorted(OVERLOAD_MODELS))
def test_sync_edits_the_matched_overload(capsys, tmp_path, case, policy):
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(OVERLOAD_MODELS[case], encoding="utf-8")
    code.write_text(OVERLOAD_CODE, encoding="utf-8")
    out_dir = tmp_path / "out"
    status, _, err = run(capsys, "sync", model, code, "--policy", policy,
                         "--out-dir", out_dir)
    assert status == 0, err
    out_model, out_code = out_dir / "m.puml", out_dir / "c.py"
    assert run(capsys, "check", out_model, out_code)[0] == 0
    assert KEPT_OVERLOAD in out_code.read_text(encoding="utf-8")
    assert "  +go(x: int)\n" in out_model.read_text(encoding="utf-8")


def test_config_policy_ask_reaches_the_prompt(capsys, monkeypatch, tmp_path,
                                              pair):
    model, code = pair
    conf = tmp_path / "c.conf"
    conf.write_text("policy = ask\n", encoding="utf-8")
    prompts = []

    def skip(prompt=""):
        prompts.append(prompt)
        return "s"
    monkeypatch.setattr("builtins.input", skip)
    status, out, _ = run(capsys, "sync", model, code, "--config", conf,
                         "--out-dir", tmp_path / "out")
    assert status == 1  # every correction skipped
    assert prompts and prompts[0].startswith("Choose 1-2")
    assert "no correction chosen; artifacts unchanged" in out


def test_config_policy_report_only_exits_three(capsys, tmp_path, pair):
    model, code = pair
    conf = tmp_path / "c.conf"
    conf.write_text("policy = report-only\n", encoding="utf-8")
    status, _, err = run(capsys, "sync", model, code, "--config", conf,
                         "--out-dir", tmp_path / "out")
    assert status == 3
    assert "policy must be one of model-wins, code-wins, union, ask" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy", ["model-wins", "code-wins", "union"])
def test_sync_renames_and_retypes_one_member(capsys, tmp_path, policy):
    # the rename and the parameter type fix edit the same method
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text("@startuml\nclass A {\n  +getNamae(x: int)\n}\n"
                     "@enduml\n", encoding="utf-8")
    code.write_text("class A:\n    def get_name(self, x: str):\n"
                    "        return x\n", encoding="utf-8")
    status, out, err = run(capsys, "sync", model, code, "--policy", policy,
                           "--out-dir", tmp_path / "out")
    assert status == 0, err
    assert "applied 2 correction(s):" in out


COMMENTED_ATTRS_CODE = """class Shelf:
    def __init__(self, label: str, size: int):
        self.label = label  # printed on the spine
        self.slots = size  # never below one
        self.locked = False  # no loans while set
        self.loans = []  # open loans only
"""
# renames the parameter-initialised label and the literal-initialised
# locked; retypes the parameter-initialised slots and the literal loans
COMMENTED_ATTRS_MODEL = """@startuml
class Shelf {
  +labels: String
  +slots: float
  +isLocked: boolean
  +loans: boolean
}
@enduml
"""
COMMENTED_ATTRS_SYNCED = """class Shelf:
    def __init__(self, label: str, size: float):
        self.labels = label  # printed on the spine
        self.slots = size  # never below one
        self.isLocked = False  # no loans while set
        self.loans = False  # open loans only
"""


def test_sync_edits_commented_attribute_lines_bytewise(capsys, tmp_path):
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(COMMENTED_ATTRS_MODEL, encoding="utf-8")
    code.write_text(COMMENTED_ATTRS_CODE, encoding="utf-8")
    out_dir = tmp_path / "out"
    status, out, err = run(capsys, "sync", model, code, "--policy",
                           "model-wins", "--out-dir", out_dir)
    assert status == 0, err
    assert "applied 4 correction(s):" in out
    assert (out_dir / "c.py").read_text(encoding="utf-8") == \
        COMMENTED_ATTRS_SYNCED
    assert (out_dir / "m.puml").read_text(encoding="utf-8") == \
        COMMENTED_ATTRS_MODEL
    assert run(capsys, "check", out_dir / "m.puml", out_dir / "c.py")[0] == 0


STUB_SPELLING_MODEL = """@startuml
class A {
  +name: String
  +A(name: String)
  +isOk(): boolean
}

class B {
  +flag: boolean
  +go(x: String): boolean
}
@enduml
"""
STUB_SPELLING_CODE = """class B:
    def __init__(self, flag: bool):
        self.flag = flag
"""


def test_sync_spells_model_types_as_python_in_every_stub(capsys, tmp_path):
    # a method stub in an existing class and an added class's stub spell
    # String and boolean alike, so the written file runs
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(STUB_SPELLING_MODEL, encoding="utf-8")
    code.write_text(STUB_SPELLING_CODE, encoding="utf-8")
    out_dir = tmp_path / "out"
    status, _, err = run(capsys, "sync", model, code, "--policy",
                         "model-wins", "--out-dir", out_dir)
    assert status == 0, err
    written = (out_dir / "c.py").read_text(encoding="utf-8")
    assert written == STUB_SPELLING_CODE + (
        "    def go(self, x: str) -> bool:\n"
        "        pass\n"
        "\n"
        "class A:\n"
        "    def __init__(self, name: str):\n"
        "        self.name = name\n"
        "    def isOk(self) -> bool:\n"
        "        pass\n")
    exec(compile(written, "c.py", "exec"), {})


def test_sync_inserts_after_a_last_line_without_newline_on_a_new_line(
        capsys, tmp_path):
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text("@startuml\nclass A {\n  +f()\n  +g()\n}\n\nclass B {\n"
                     "}\n@enduml\n", encoding="utf-8")
    code.write_text("class A:\n    def f(self):\n        return 1",
                    encoding="utf-8")
    out_dir = tmp_path / "out"
    status, _, err = run(capsys, "sync", model, code, "--policy",
                         "model-wins", "--out-dir", out_dir)
    assert status == 0, err
    assert (out_dir / "c.py").read_text(encoding="utf-8") == (
        "class A:\n    def f(self):\n        return 1\n"
        "    def g(self):\n        pass\n"
        "\n"
        "class B:\n    pass\n")


def test_sync_fills_the_constructor_it_empties_in_the_bundled_pair(
        capsys, tmp_path, fixtures_dir):
    out_dir = tmp_path / "out"
    status, _, err = run(capsys, "sync",
                         fixtures_dir / "library_v2_model.puml",
                         fixtures_dir / "library_v1_drifted_code.py",
                         "--policy", "model-wins", "--out-dir", out_dir)
    assert status == 0, err
    written = (out_dir / "library_v1_drifted_code.py").read_text(
        encoding="utf-8")
    ast.parse(written)
    assert ("class UserCard:\n    def __init__(self, userID:int):\n"
            "        pass\n\n    def getUserInfo(self):\n") in written


def _sync_model_wins(capsys, tmp_path, model_text: str,
                     code_text: str) -> str:
    """The code that ``sync --policy model-wins`` writes for the pair."""
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(f"@startuml\n{model_text}@enduml\n", encoding="utf-8")
    code.write_text(code_text, encoding="utf-8")
    out_dir = tmp_path / "out"
    status, _, err = run(capsys, "sync", model, code, "--policy",
                         "model-wins", "--out-dir", out_dir)
    assert status == 0, err
    return (out_dir / "c.py").read_text(encoding="utf-8")


def test_sync_closes_the_innermost_block_first_at_one_point(capsys,
                                                            tmp_path):
    # the missing final newline, an attribute for the constructor, a stub
    # for its class and a class stub all go in after the last line
    written = _sync_model_wins(
        capsys, tmp_path,
        "class A {\n  +n: int\n  +m: int\n  +A(n: int)\n  +go(): B\n}\n\n"
        "class B {\n}\n",
        "class A:\n    def __init__(self, n: int):\n        self.n = n")
    assert written == (
        "from __future__ import annotations\n"
        "class A:\n    def __init__(self, n: int):\n        self.n = n\n"
        "        self.m = None\n"
        "    def go(self) -> B:\n        pass\n"
        "\n"
        "class B:\n    pass\n")
    exec(compile(written, "c.py", "exec"), {})


@pytest.mark.parametrize("head, synced_head", [
    ("#!/usr/bin/env python3\n",
     "#!/usr/bin/env python3\nfrom __future__ import annotations\n"),
    # a future import must come first after the docstring
    ('"""Library."""\nfrom __future__ import division\n',
     '"""Library."""\nfrom __future__ import annotations\n'
     "from __future__ import division\n"),
], ids=["shebang", "docstring-and-future-import"])
def test_sync_adds_the_future_import_after_the_module_head(
        capsys, tmp_path, head, synced_head):
    # the stub's __init__ takes its attribute, annotated with a type the
    # code never defines
    written = _sync_model_wins(
        capsys, tmp_path,
        "class A {\n  +f()\n}\n\nclass B {\n  -c: Amount\n}\n",
        head + "class A:\n    def f(self):\n        pass\n")
    assert written.startswith(synced_head + "class A:\n")
    assert "    def __init__(self, c: Amount):\n" in written
    exec(compile(written, "c.py", "exec"), {})


@pytest.mark.parametrize("head, doc", [
    ('"""Library."""\n\n', "Library."),
    ('"""Library.\n\nLends books.\n"""\n', "Library.\n\nLends books.\n"),
    ("#!/usr/bin/env python3\n\n'''Library.'''  # the docstring\n",
     "Library."),
], ids=["one-line", "three-line", "after-comment-and-blank"])
def test_sync_adds_the_future_import_below_a_docstring(capsys, tmp_path,
                                                       head, doc):
    written = _sync_model_wins(
        capsys, tmp_path, "class A {\n  +f()\n  +g(): Later\n}\n",
        head + "class A:\n    def f(self):\n        pass\n")
    assert written.startswith(
        head.rstrip("\n") + "\nfrom __future__ import annotations\n")
    namespace: dict = {}
    exec(compile(written, "c.py", "exec"), namespace)
    assert namespace["__doc__"] == doc


def test_sync_adds_the_future_import_above_a_string_expression(capsys,
                                                               tmp_path):
    # a string that more code follows on its line is no docstring
    code_text = '"a" + "b"\n\nclass A:\n    def f(self):\n        pass\n'
    written = _sync_model_wins(
        capsys, tmp_path, "class A {\n  +f()\n  +g(): Later\n}\n",
        code_text)
    assert written.startswith("from __future__ import annotations\n"
                              + code_text)
    exec(compile(written, "c.py", "exec"), {})


def test_sync_adds_no_future_import_for_an_unannotated_list(capsys,
                                                            tmp_path):
    # the stub assigns its collection attribute [] and takes no parameter
    written = _sync_model_wins(
        capsys, tmp_path,
        "class A {\n  +f()\n}\n\nclass B {\n  -cs: Amount[]\n}\n",
        "class A:\n    def f(self):\n        pass\n")
    assert written == ("class A:\n    def f(self):\n        pass\n\n"
                       "class B:\n    def __init__(self):\n"
                       "        self.cs = []\n")


def test_sync_adds_no_future_import_for_a_retype_to_a_placeholder(
        capsys, tmp_path):
    # an attribute assigned a literal is retyped by a placeholder, which
    # spells no annotation
    written = _sync_model_wins(
        capsys, tmp_path, "class A {\n  +x: Amount\n}\n",
        "class A:\n    def __init__(self):\n        self.x = True\n")
    assert written == \
        "class A:\n    def __init__(self):\n        self.x = None\n"


def test_sync_adds_no_second_future_import(capsys, tmp_path):
    code_text = ("from __future__ import annotations\n\n"
                 "class A:\n    def f(self):\n        pass\n")
    written = _sync_model_wins(
        capsys, tmp_path,
        "class A {\n  +f()\n  +g(): Later\n}\n", code_text)
    assert written == code_text + "    def g(self) -> Later:\n        pass\n"


@pytest.mark.parametrize("model_text, code_text, synced", [
    # the class's only method goes
    ("class A {\n  +f()\n}\n\nclass B {\n}\n",
     "class A:\n    def f(self):\n        pass\n\n"
     "class B:\n    def g(self):\n        return 1\n",
     "class A:\n    def f(self):\n        pass\n\nclass B:\n    pass\n"),
    # the constructor's only assignment goes, and a stub follows it
    ("class A {\n  +A(x: int)\n  +g()\n}\n",
     "class A:\n    def __init__(self, x: int):\n        self.x = x",
     "class A:\n    def __init__(self, x: int):\n        pass\n"
     "    def g(self):\n        pass\n"),
], ids=["class", "constructor"])
def test_sync_writes_pass_into_a_body_it_empties(capsys, tmp_path,
                                                 model_text, code_text,
                                                 synced):
    assert _sync_model_wins(capsys, tmp_path, model_text,
                            code_text) == synced


def _parse_counts(monkeypatch) -> dict[str, int]:
    from modelsync import cli
    calls = {"model": 0, "code": 0}

    def counting(side, original):
        def parse(*args, **kwargs):
            calls[side] += 1
            return original(*args, **kwargs)
        return parse
    monkeypatch.setattr(cli, "parse_plantuml",
                        counting("model", cli.parse_plantuml))
    monkeypatch.setattr(cli, "parse_code", counting("code", cli.parse_code))
    return calls


@pytest.mark.parametrize("pair_name, policy, parses", [
    ("v1_drifted", "model-wins", {"model": 1, "code": 2}),
    ("v1_drifted", "code-wins", {"model": 2, "code": 1}),
    ("v2", "union", {"model": 2, "code": 2}),  # adds classes to both
])
def test_sync_reparses_only_the_rewritten_side(capsys, monkeypatch, tmp_path,
                                               fixtures_dir, pair_name,
                                               policy, parses):
    model = fixtures_dir / f"library_{pair_name}_model.puml"
    code = fixtures_dir / f"library_{pair_name}_code.py"
    calls = _parse_counts(monkeypatch)
    status, _, err = run(capsys, "sync", model, code, "--policy", policy,
                         "--out-dir", tmp_path / "out")
    assert status == 0, err
    assert calls == parses


@pytest.mark.parametrize("policy", ["model-wins", "code-wins"])
def test_sync_releases_the_first_analysis_before_it_reparses(
        capsys, monkeypatch, tmp_path, fixtures_dir, policy):
    # when the rewritten side is re-parsed, only the unchanged side's
    # model is left of the first pass
    from modelsync import repair
    from modelsync.consistency import Finding
    from modelsync.correction import CorrectionSet
    from modelsync.model import ClassModel
    from modelsync.pycode import CodeDocument

    def live() -> dict[str, int]:
        counts = Counter(type(obj) for obj in gc.get_objects())
        return {kind.__name__: counts[kind] for kind in
                (Finding, CorrectionSet, CodeDocument, ClassModel)}

    seen = []
    original = repair.reparse

    def reparse(*args, **kwargs):
        seen.append(live())
        return original(*args, **kwargs)
    monkeypatch.setattr(repair, "reparse", reparse)
    gc.collect()
    before = live()
    status, _, err = run(capsys, "sync",
                         fixtures_dir / "library_v1_drifted_model.puml",
                         fixtures_dir / "library_v1_drifted_code.py",
                         "--policy", policy, "--out-dir", tmp_path / "out")
    assert status == 0, err
    assert [{kind: n - before[kind] for kind, n in counts.items()}
            for counts in seen] == [{"Finding": 0, "CorrectionSet": 0,
                                     "CodeDocument": 0, "ClassModel": 1}]


@pytest.mark.parametrize("policy", ["model-wins", "code-wins"])
def test_sync_releases_the_input_before_it_encodes_the_rewritten_side(
        capsys, tmp_path, fixtures_dir, policy):
    # ``str.encode`` cannot be wrapped, so a profile hook counts the live
    # objects at each call of it from ``cli``
    from modelsync.consistency import Finding
    from modelsync.correction import CorrectionSet
    from modelsync.pycode import CodeDocument

    def live() -> dict[str, int]:
        counts = Counter(type(obj) for obj in gc.get_objects())
        return {kind.__name__: counts[kind] for kind in
                (Finding, CorrectionSet, CodeDocument)}

    seen = []

    def profile(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", "") == "encode"
                and frame.f_code.co_filename == cli.__file__):
            seen.append(live())

    gc.collect()
    before = live()
    sys.setprofile(profile)
    try:
        status, _, err = run(capsys, "sync",
                             fixtures_dir / "library_v1_drifted_model.puml",
                             fixtures_dir / "library_v1_drifted_code.py",
                             "--policy", policy, "--out-dir", tmp_path / "out")
    finally:
        sys.setprofile(None)
    assert status == 0, err
    assert [{kind: n - before[kind] for kind, n in counts.items()}
            for counts in seen] == [dict.fromkeys(before, 0)]


UNPARSABLE_AFTER_SYNC_MODEL = """@startuml
class FooBar {
}
@enduml
"""
UNPARSABLE_AFTER_SYNC_CODE = """class Foobar:
    pass
"""


def test_sync_unparsable_output_writes_nothing(capsys, tmp_path):
    # under exact names the classes differ, so union adds each to the other
    # side, but both parsers refuse two names that differ only in case
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(UNPARSABLE_AFTER_SYNC_MODEL, encoding="utf-8")
    code.write_text(UNPARSABLE_AFTER_SYNC_CODE, encoding="utf-8")
    status, out, err = run(capsys, "sync", model, code, "--policy", "union",
                           "--name-mode", "exact", "--in-place")
    assert status == 2
    assert "class 'Foobar' already declared" in err
    assert "nothing written" in err
    assert out == ""
    assert model.read_text(encoding="utf-8") == UNPARSABLE_AFTER_SYNC_MODEL
    assert code.read_text(encoding="utf-8") == UNPARSABLE_AFTER_SYNC_CODE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.py", "m.puml"]


def test_sync_not_converging_writes_nothing(capsys, monkeypatch, tmp_path,
                                            pair):
    model, code = pair
    before = model.read_bytes(), code.read_bytes()
    answers = iter(["1", "s", "s", "s", "s"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    status, out, err = run(capsys, "sync", model, code, "--policy", "ask",
                           "--in-place")
    assert status == 1
    assert "applied 1 correction(s):" in out
    assert "wrote" not in out
    assert "synchronization did not converge" in err
    assert err.endswith("nothing written\n")
    assert (model.read_bytes(), code.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["code.py",
                                                          "model.puml"]


def test_sync_in_place_keeps_file_mode_and_symlinks(capsys, tmp_path, pair):
    model, code = pair
    code.chmod(0o640)
    link = tmp_path / "link.py"
    link.symlink_to(code)
    status, _, _ = run(capsys, "sync", model, link,
                       "--policy", "model-wins", "--in-place")
    assert status == 0
    assert link.is_symlink()
    assert "def getNamae(self):" in code.read_text(encoding="utf-8")
    assert code.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "code.py", "link.py", "model.puml"]


BASE_CLASS_MODEL = "@startuml\nclass A {\n  +go(x: int): int\n}\n@enduml\n"
BASE_CLASS_CODE = ("class Base:\n    pass\n\n\nclass A(Base):\n"
                   "    def go(self, x: int) -> int:\n        return x\n")


def test_base_class_header_rejected_at_its_line(capsys, tmp_path):
    # the class used to be skipped, so sync added a second `class A:`
    # stub and removed `Base`
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(BASE_CLASS_MODEL, encoding="utf-8")
    code.write_text(BASE_CLASS_CODE, encoding="utf-8")
    status, out, err = run(capsys, "check", model, code)
    assert status == 2
    assert f"{code}:5:" in err and "class A(Base):" in err
    out_dir = tmp_path / "out"
    status, out, err = run(capsys, "sync", model, code,
                           "--policy", "model-wins", "--out-dir", out_dir)
    assert status == 2
    assert f"{code}:5:" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())
    assert code.read_text(encoding="utf-8") == BASE_CLASS_CODE
    assert model.read_text(encoding="utf-8") == BASE_CLASS_MODEL


# the model keeps 'size' as an attribute, of its type or retyped
DROPPED_PARAM_MODELS = [
    "@startuml\nclass A {\n  +size: int\n  +A(count: int, extra)\n}\n"
    "@enduml\n",
    "@startuml\nclass A {\n  +size: String\n  +A(count: int, extra)\n}\n"
    "@enduml\n"]
DROPPED_PARAM_CODE = ("class A:\n    def __init__(self, size: int):\n"
                      "        self.size = size\n")
ASSIGNED_FROM_SIZE = ("'self.size' is assigned from parameter 'size', which "
                      "the new signature of 'A' drops")
# the body reads 'size' inside an expression
READ_SIZE_CODE = ("class A:\n    def __init__(self, size: int):\n"
                  "        self.total = size * 2\n")
READS_SIZE = ("the body reads parameter 'size', which the new signature of "
              "'A' drops")


@pytest.mark.parametrize(
    "in_place, model_text, code_text, policy, message",
    [(False, DROPPED_PARAM_MODELS[0], DROPPED_PARAM_CODE, "model-wins",
      ASSIGNED_FROM_SIZE),
     (True, DROPPED_PARAM_MODELS[0], DROPPED_PARAM_CODE, "model-wins",
      ASSIGNED_FROM_SIZE),
     (False, DROPPED_PARAM_MODELS[1], DROPPED_PARAM_CODE, "model-wins",
      ASSIGNED_FROM_SIZE),
     (True, DROPPED_PARAM_MODELS[1], DROPPED_PARAM_CODE, "union",
      ASSIGNED_FROM_SIZE),
     (False, DROPPED_PARAM_MODELS[0], READ_SIZE_CODE, "model-wins",
      READS_SIZE),
     (False, DROPPED_PARAM_MODELS[0], READ_SIZE_CODE, "union", READS_SIZE)],
    ids=["False", "True", "retyped-model-wins", "retyped-union-in-place",
         "expression-model-wins", "expression-union"])
def test_sync_refuses_to_drop_an_assigned_parameter(capsys, tmp_path,
                                                    in_place, model_text,
                                                    code_text, policy,
                                                    message):
    # the new signature (count, extra) drops 'size', which line 3 still
    # reads: the written code raised NameError on A(1, 2)
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(model_text, encoding="utf-8")
    code.write_text(code_text, encoding="utf-8")
    out_dir = tmp_path / "out"
    where = ["--in-place"] if in_place else ["--out-dir", out_dir]
    status, out, err = run(capsys, "sync", model, code,
                           "--policy", policy, *where)
    assert status == 1
    assert err == f"error: {code}:3: {message}\n"
    assert out == ""
    assert not out_dir.exists()
    assert code.read_text(encoding="utf-8") == code_text
    assert model.read_text(encoding="utf-8") == model_text


@pytest.mark.parametrize("policy", ["model-wins", "union"])
def test_sync_refuses_two_retypes_of_one_parameter(capsys, tmp_path, policy):
    # the attribute's retype goes to the parameter it is assigned from,
    # which the model types otherwise: both were listed as applied, then
    # the re-check failed
    model_text = ("@startuml\nclass A {\n  +size: String\n"
                  "  +A(size: Integer)\n}\n@enduml\n")
    code_text = ("class A:\n    def __init__(self, size: bool):\n"
                 "        self.size = size\n")
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(model_text, encoding="utf-8")
    code.write_text(code_text, encoding="utf-8")
    out_dir = tmp_path / "out"
    status, out, err = run(capsys, "sync", model, code, "--policy", policy,
                           "--out-dir", out_dir)
    assert status == 1
    assert err == (f"error: {code}:2: parameter 'size' of 'A' is retyped "
                   f"both 'Integer' and 'str'\n")
    assert out == ""
    assert not out_dir.exists()
    assert code.read_text(encoding="utf-8") == code_text
    assert model.read_text(encoding="utf-8") == model_text


def test_check_input_not_utf8_exits_three(capsys, pair):
    model, _ = pair
    bad = model.parent / "bad.py"
    data = b'class A:\n    def f(self) -> str:\n        return "caf\xe9"\n'
    bad.write_bytes(data)
    status, out, err = run(capsys, "check", model, bad)
    assert status == 3
    assert out == ""
    assert err == (f"i/o error: {bad}: not valid UTF-8 at byte "
                   f"{data.index(0xe9)}\n")


def _crlf_pair(tmp_path, drifted_model_text, drifted_code_text):
    """The v1 drifted pair with CRLF line ends, under the fixtures' names."""
    model = tmp_path / "library_v1_drifted_model.puml"
    code = tmp_path / "library_v1_drifted_code.py"
    model.write_bytes(drifted_model_text.replace("\n", "\r\n").encode())
    code.write_bytes(drifted_code_text.replace("\n", "\r\n").encode())
    return model, code


def test_check_hashes_crlf_inputs_as_read(capsys, tmp_path,
                                          drifted_model_text,
                                          drifted_code_text):
    model, code = _crlf_pair(tmp_path, drifted_model_text, drifted_code_text)
    status, out, _ = run(capsys, "check", model, code, "--json")
    assert status == 1
    payload = json.loads(out)
    assert [d["sha256"] for d in payload["inputs"]] == [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (model, code)]
    # the text is the LF fixtures' text, so findings and their ids are too
    golden = json.loads((GOLDEN / "v1-check-json" / "stdout").read_bytes())
    assert payload["findings"] == golden["findings"]


@pytest.mark.parametrize("policy", ["model-wins", "code-wins", "union"])
def test_sync_writes_an_unchanged_side_back_as_read(capsys, tmp_path,
                                                    drifted_model_text,
                                                    drifted_code_text,
                                                    policy):
    model, code = _crlf_pair(tmp_path, drifted_model_text, drifted_code_text)
    out_dir = tmp_path / "out"
    status, _, _ = run(capsys, "sync", model, code, "--policy", policy,
                       "--out-dir", out_dir)
    assert status == 0
    golden = GOLDEN / f"v1-sync-{policy}"
    unchanged = 0
    for path, lf_text in ((model, drifted_model_text),
                          (code, drifted_code_text)):
        written = (out_dir / path.name).read_bytes()
        expected = (golden / path.name).read_bytes()
        if expected == lf_text.encode():
            unchanged += 1
            assert written == path.read_bytes()
        else:  # a rewritten side has LF line ends, as from LF input
            assert written == expected
    assert unchanged == 1


BOM = b"\xef\xbb\xbf"


def _bom_pair(tmp_path, drifted_model_text, drifted_code_text, sides):
    """The v1 drifted pair under the fixtures' names, with a UTF-8
    byte-order mark before each side in ``sides``."""
    model = tmp_path / "library_v1_drifted_model.puml"
    code = tmp_path / "library_v1_drifted_code.py"
    for side, path, text in (("model", model, drifted_model_text),
                             ("code", code, drifted_code_text)):
        path.write_bytes((BOM if side in sides else b"") + text.encode())
    return model, code


@pytest.mark.parametrize("side", ["model", "code"])
def test_check_reads_a_byte_order_mark_as_absent(capsys, tmp_path,
                                                 drifted_model_text,
                                                 drifted_code_text, side):
    # the mark hid the first code class, and made the model unparsable
    model, code = _bom_pair(tmp_path, drifted_model_text, drifted_code_text,
                            {side})
    status, out, err = run(capsys, "check", model, code, "--json")
    assert (status, err) == (1, "")
    payload = json.loads(out)
    assert [d["sha256"] for d in payload["inputs"]] == [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (model, code)]
    golden = json.loads((GOLDEN / "v1-check-json" / "stdout").read_bytes())
    assert payload["findings"] == golden["findings"]


def test_sync_keeps_a_byte_order_mark_on_a_rewritten_side(
        capsys, tmp_path, drifted_model_text, drifted_code_text):
    model, code = _bom_pair(tmp_path, drifted_model_text, drifted_code_text,
                            {"model", "code"})
    out_dir = tmp_path / "out"
    status, _, err = run(capsys, "sync", model, code,
                         "--policy", "model-wins", "--out-dir", out_dir)
    assert (status, err) == (0, "")
    golden = GOLDEN / "v1-sync-model-wins"
    assert (out_dir / code.name).read_bytes() == \
        BOM + (golden / code.name).read_bytes()
    # the model side is unchanged, so it is written back as read
    assert (out_dir / model.name).read_bytes() == model.read_bytes()
    assert run(capsys, "check", out_dir / model.name,
               out_dir / code.name)[0] == 0


@pytest.mark.parametrize("case", ["out-dir", "in-place", "in-place-link"])
def test_sync_refuses_two_inputs_written_to_one_file(capsys, tmp_path,
                                                     drifted_model_text,
                                                     drifted_code_text,
                                                     case):
    # the two temp files had one name: sync printed that it applied the
    # corrections, then failed on the second one and wrote nothing
    (tmp_path / "m").mkdir()
    (tmp_path / "c").mkdir()
    model = tmp_path / "m" / "lib"
    model.write_text(drifted_model_text, encoding="utf-8")
    out_dir = tmp_path / "o"
    if case == "out-dir":
        code = tmp_path / "c" / "lib"
        code.write_text(drifted_code_text, encoding="utf-8")
        where = ["--out-dir", out_dir]
    else:
        code = model
        if case == "in-place-link":
            code = tmp_path / "c" / "link"
            code.symlink_to(model)
        where = ["--in-place"]
    before = model.read_bytes(), code.read_bytes()
    status, out, err = run(capsys, "sync", model, code,
                           "--policy", "model-wins", *where)
    assert (status, out) == (3, "")
    assert err.startswith(f"i/o error: {model} and {code} would both be "
                          f"written to ")
    assert (model.read_bytes(), code.read_bytes()) == before
    assert not out_dir.exists()
    assert not list(tmp_path.rglob("*.tmp"))


def _boom(*args, **kwargs):
    raise RuntimeError("not caught by main")


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2", "usage",
                                  "uncaught"])
def test_main_pauses_the_collector_and_restores_it(capsys, monkeypatch,
                                                   pair, case, collecting):
    model, code = pair
    bad = model.parent / "bad.puml"
    bad.write_text("@startuml\nclass A {\n  ???\n}\n@enduml\n",
                   encoding="utf-8")
    argv, outcome = {
        "exit-0": (["render", model], 0),
        "exit-1": (["check", model, code], 1),
        "exit-2": (["check", bad, code], 2),
        "usage": (["check", model], SystemExit),
        "uncaught": (["check", model, code], RuntimeError),
    }[case]
    if case == "uncaught":
        monkeypatch.setattr(cli, "check", _boom)
    seen = []
    parse = cli.parse_plantuml

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return parse(*args, **kwargs)
    monkeypatch.setattr(cli, "parse_plantuml", recording)

    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert run(capsys, *argv)[0] == outcome
        else:
            with pytest.raises(outcome):
                run(capsys, *argv)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if case == "usage" else [False])
    # only the console entry freezes; main() leaves the caller's heap alone
    assert gc.get_freeze_count() == frozen


def _help():
    raise SystemExit(0)


@pytest.mark.parametrize("ending", [lambda: 0, lambda: 4, _help, _boom],
                         ids=["exit-0", "exit-4", "help", "uncaught"])
def test_console_entry_freezes_the_collector_however_main_ends(monkeypatch,
                                                               ending):
    monkeypatch.setattr(cli, "main", ending)
    try:
        try:
            cli.console_main()
        except (SystemExit, RuntimeError):
            pass
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


# Runs the module as ``python -m modelsync.cli`` does, with an atexit hook
# that reports whether the heap was frozen when the interpreter began to
# shut down.
_ENTRY_WITH_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0,"
    " file=sys.stderr))\n"
    "runpy.run_module('modelsync.cli', run_name='__main__', alter_sys=True)\n")


@pytest.mark.parametrize("case", ["parse-error", "usage"])
def test_a_fresh_process_exits_frozen_with_main_s_status_and_stderr(
        capsys, pair, case):
    model, code = pair
    bad = model.parent / "bad.puml"
    bad.write_text("@startuml\nclass A {\n  ???\n}\n@enduml\n",
                   encoding="utf-8")
    argv = {"parse-error": ["check", str(bad), str(code)],
            "usage": ["check", str(model)]}[case]
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    in_process = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _ENTRY_WITH_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    assert status == 2
    assert (done.returncode, done.stdout, done.stderr) == \
        (status, in_process.out, in_process.err + "frozen: True\n")


def test_the_console_script_is_the_function_main_runs_as_a_module():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    tree = ast.parse((SRC / "modelsync" / "cli.py").read_text())
    [entry] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = [node for node in ast.walk(entry) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)]
    assert project["project"]["scripts"]["modelsync"] == \
        f"modelsync.cli:{call.func.id}"
    assert call.func.id == "console_main"


# --- a code file whose dialect text sits in one ```python block ------------

FENCED_HEAD = "# Notes\n\nSome prose.\n\n```python\n"
FENCED_TAIL = "```\n\nMore prose.\n"
FENCED_CODE = (FENCED_HEAD
               + "class A:\n"
               "    def __init__(self, size: str):\n"
               "        self.size = size\n"
               "\n"
               "    def grow(self, n: int) -> None:\n"
               "        pass\n"
               + FENCED_TAIL)
# the attribute's type and grow's parameter drift; the void return agrees
FENCED_MODEL = ("@startuml\nclass A {\n  +size: int\n"
                "  +grow(n: Amount): void\n}\n@enduml\n")


def _write_pair(tmp_path, code_text: str = FENCED_CODE,
                 model_text: str = FENCED_MODEL):
    model = tmp_path / "m.puml"
    code = tmp_path / "c.md"
    model.write_text(model_text, encoding="utf-8")
    code.write_text(code_text, encoding="utf-8")
    return model, code


def test_check_names_file_lines_inside_a_fenced_block(capsys, tmp_path):
    model, code = _write_pair(tmp_path)
    status, out, _ = run(capsys, "check", model, code)
    assert status == 1
    # 'self.size = size' is line 8 of the file, 'def grow' line 10
    assert [line.strip() for line in out.splitlines()
            if line.strip().startswith("at:")] == [
        f"at: model {model}:4, code {code}:10",
        f"at: model {model}:3, code {code}:8"]
    status, out, _ = run(capsys, "check", model, code, "--json")
    assert status == 1
    assert sorted(f["codeLocation"]["span"]["startLine"]
                  for f in json.loads(out)["findings"]) == [8, 10]


@pytest.mark.parametrize("policy", ["model-wins", "code-wins", "union"])
def test_sync_edits_only_inside_the_fenced_block(capsys, tmp_path, policy):
    model, code = _write_pair(tmp_path)
    status, _, err = run(capsys, "sync", model, code, "--policy", policy,
                         "--in-place")
    assert status == 0, err
    written = code.read_text(encoding="utf-8")
    if policy == "code-wins":
        assert written == FENCED_CODE
        return
    assert written.startswith(FENCED_HEAD) and written.endswith(FENCED_TAIL)
    block = written[len(FENCED_HEAD):-len(FENCED_TAIL)]
    # 'Amount' is no Python name, so the future import heads the block
    assert block == ("from __future__ import annotations\n"
                     "class A:\n"
                     "    def __init__(self, size: int):\n"
                     "        self.size = size\n"
                     "\n"
                     "    def grow(self, n: Amount) -> None:\n"
                     "        pass\n")
    exec(compile(block, "c.md", "exec"), {})


def test_sync_adds_a_class_inside_a_fenced_block_without_one(capsys,
                                                             tmp_path):
    model, code = _write_pair(tmp_path,
                               FENCED_HEAD + "# no class yet\n" + FENCED_TAIL)
    status, _, err = run(capsys, "sync", model, code, "--policy",
                         "model-wins", "--in-place")
    assert status == 0, err
    written = code.read_text(encoding="utf-8")
    assert written.startswith(FENCED_HEAD + "# no class yet\n")
    assert written.endswith("        pass\n" + FENCED_TAIL)
    assert "\nclass A:\n" in written


@pytest.mark.parametrize("code_text, line, message", [
    ("```python\nclass A:\n    pass\n```\n\n```python\nclass B:\n"
     "    pass\n```\n", 6, "multiple ```python blocks"),
    ("prose\n\n```python\nclass A:\n    pass\n", 3,
     "unterminated ```python block"),
], ids=["second-block", "unterminated-block"])
def test_check_refuses_a_second_or_unterminated_python_block(
        capsys, tmp_path, code_text, line, message):
    model, code = _write_pair(tmp_path, code_text)
    status, out, err = run(capsys, "check", model, code)
    assert status == 2
    assert out == ""
    assert err == f"parse error: {code}:{line}: {message}\n"


EMPTY_CLASS_MODEL = "@startuml\nclass A {\n}\n@enduml\n"
EMPTY_CLASS_CODE = "class A:\n    pass\n"


@pytest.mark.parametrize("side, text, message", [
    ("code", "class A:\n    def __init__(self, x):\n        pass\n"
     "    def __init__(self, x, y):\n        pass\n",
     "class 'A' defines __init__ twice"),
    ("model", "@startuml\nclass A {\n  +x: int\n  -x\n}\n@enduml\n",
     "duplicate attribute 'x'"),
    ("model", "@startuml\nclass A {\n  +f(a)\n  +f(b: int)\n}\n@enduml\n",
     "duplicate method 'f'/1"),
    ("model", "@startuml\nclass A {\n  +A()\n  +A(x)\n}\n@enduml\n",
     "class 'A' declares two constructors"),
], ids=["init-twice", "duplicate-attribute", "duplicate-method",
        "two-constructors"])
def test_check_refuses_a_second_member_at_its_line(capsys, tmp_path, side,
                                                   text, message):
    model, code = tmp_path / "m.puml", tmp_path / "c.py"
    model.write_text(text if side == "model" else EMPTY_CLASS_MODEL,
                     encoding="utf-8")
    code.write_text(text if side == "code" else EMPTY_CLASS_CODE,
                    encoding="utf-8")
    status, out, err = run(capsys, "check", model, code)
    assert status == 2
    assert out == ""
    bad = model if side == "model" else code
    assert err == f"parse error: {bad}:4: {message}\n"


def test_a_none_return_extracts_as_void_and_checks_clean(capsys, tmp_path):
    model, code = _write_pair(
        tmp_path, "class A:\n    def grow(self, n: int) -> None:\n"
        "        pass\n",
        "@startuml\nclass A {\n  +grow(n: int): void\n}\n@enduml\n")
    status, out, _ = run(capsys, "extract", code)
    assert status == 0
    assert "  +grow(n: int): void\n" in out
    status, out, _ = run(capsys, "check", model, code)
    assert status == 0, out


def _sync_pair(capsys, tmp_path, model_text: str, code_text: str,
               policy: str):
    model, code = tmp_path / "m.puml", tmp_path / "c.py"
    model.write_text(model_text, encoding="utf-8")
    code.write_text(code_text, encoding="utf-8")
    status, out, err = run(capsys, "sync", model, code, "--policy", policy,
                           "--in-place")
    assert status == 0, err
    return model, code, out


def test_model_wins_writes_a_void_return_as_none(capsys, tmp_path):
    model, code, out = _sync_pair(
        capsys, tmp_path, "@startuml\nclass A {\n  +f(): void\n}\n@enduml\n",
        "class A:\n    def f(self) -> int:\n        return 1\n",
        "model-wins")
    assert "change the return type of 'f' to 'None' in the code" in out
    assert code.read_text(encoding="utf-8") == \
        "class A:\n    def f(self) -> None:\n        return 1\n"
    assert run(capsys, "check", model, code)[0] == 0


def test_code_wins_reads_a_void_annotation_as_the_void_type(capsys,
                                                           tmp_path):
    model, code, _ = _sync_pair(
        capsys, tmp_path, "@startuml\nclass A {\n  +f(): int\n}\n@enduml\n",
        "class A:\n    def f(self) -> void:\n        pass\n", "code-wins")
    assert model.read_text(encoding="utf-8") == \
        "@startuml\nclass A {\n  +f(): void\n}\n@enduml\n"
    assert run(capsys, "check", model, code)[0] == 0


def test_model_wins_reads_a_none_type_in_the_model_as_void(capsys, tmp_path):
    model, code, _ = _sync_pair(
        capsys, tmp_path, "@startuml\nclass A {\n  +g(): None\n}\n@enduml\n",
        "class A:\n    def g(self) -> int:\n        pass\n", "model-wins")
    assert code.read_text(encoding="utf-8") == \
        "class A:\n    def g(self) -> None:\n        pass\n"
    assert run(capsys, "check", model, code)[0] == 0


def test_model_wins_writes_a_typed_collection_that_imports(capsys, tmp_path):
    model, code, out = _sync_pair(
        capsys, tmp_path,
        "@startuml\nclass A {\n  +g(xs: Book[]): int\n}\n@enduml\n",
        "class A:\n    def g(self, xs: int) -> int:\n        return 0\n",
        "model-wins")
    assert "change parameter 'xs' of 'g' to 'list[Book]' in the code" in out
    written = code.read_text(encoding="utf-8")
    assert "    def g(self, xs: list[Book]) -> int:\n" in written
    # Book is defined nowhere, so only the future import lets it load
    subprocess.run([sys.executable, str(code)], check=True)
    assert run(capsys, "check", model, code)[0] == 0


def test_code_wins_copies_subscripted_annotations_as_plantuml(capsys,
                                                             tmp_path):
    model, code, _ = _sync_pair(
        capsys, tmp_path, "@startuml\nclass A {\n  +go(x: int): int\n}\n"
        "@enduml\n",
        "class A:\n    def go(self, x: int) -> int:\n        return x\n\n"
        "    def extra(self, y: Optional[str]) -> list[int]:\n"
        "        return []\n", "code-wins")
    assert "  +extra(y: str): int[]\n" in model.read_text(encoding="utf-8")


def test_extract_of_subscripts_and_optionals_checks_clean(capsys, tmp_path):
    code = tmp_path / "c.py"
    code.write_text(
        "from typing import Optional\n\n"
        "class Shelf:\n"
        "    def __init__(self, titles: list[str], size: Optional[int]):\n"
        "        self.titles = titles\n"
        "        self.size = size\n"
        "    def find(self, n: int | None) -> Optional[str]:\n"
        "        pass\n", encoding="utf-8")
    status, out, _ = run(capsys, "extract", code)
    assert status == 0
    assert out == ("@startuml\nclass Shelf {\n  -titles: str[]\n"
                   "  -size: int\n  +Shelf(titles: str[], size: int)\n"
                   "  +find(n: int): str\n}\n@enduml\n")
    model = tmp_path / "m.puml"
    model.write_text(out, encoding="utf-8")
    status, out, err = run(capsys, "check", model, code)
    assert (status, err) == (0, "")
    assert "consistent" in out
