from __future__ import annotations

import gc
import hashlib
import json
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
    code.write_text(render_code_skeleton(parse_plantuml(v1_model_text).model),
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
    assert model_equal(parse_plantuml(out).model,
                       parse_plantuml(v1_model_text).model)


def test_extract_emits_model_from_code(capsys, tmp_path, v1_code_text):
    code = tmp_path / "c.py"
    code.write_text(v1_code_text, encoding="utf-8")
    status, out, _ = run(capsys, "extract", code)
    assert status == 0
    extracted = parse_plantuml(out).model
    assert {c.name for c in extracted.classes} == \
        {"Library", "User", "UserCard", "Book"}
    assert "+User(name, userCard)" in out


def test_gen_code_emits_skeleton(capsys, tmp_path, v1_model_text):
    model = tmp_path / "m.puml"
    model.write_text(v1_model_text, encoding="utf-8")
    status, out, _ = run(capsys, "gen-code", model)
    assert status == 0
    parsed = parse_code(out).model
    design = parse_plantuml(v1_model_text).model
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
        (tmp_path / "gen" / "model.puml").read_text(encoding="utf-8")).model
    assert model_equal(generated, parse_plantuml(v2_model_text).model)
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


UNPARSABLE_AFTER_SYNC_MODEL = """@startuml
class A {
  +go(x: int): int
}
@enduml
"""
UNPARSABLE_AFTER_SYNC_CODE = """class A:
    def go(self, x: int) -> int:
        return x

    def extra(self, y: Optional[str]) -> list[int]:
        return []
"""


def test_sync_unparsable_output_writes_nothing(capsys, tmp_path):
    # code-wins copies `extra` into the model, whose types PlantUML rejects
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(UNPARSABLE_AFTER_SYNC_MODEL, encoding="utf-8")
    code.write_text(UNPARSABLE_AFTER_SYNC_CODE, encoding="utf-8")
    status, out, err = run(capsys, "sync", model, code,
                           "--policy", "code-wins", "--in-place")
    assert status == 2
    assert "invalid type 'list[int]'" in err
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


DROPPED_PARAM_MODEL = ("@startuml\nclass A {\n  +size: int\n"
                       "  +A(count: int, extra)\n}\n@enduml\n")
DROPPED_PARAM_CODE = ("class A:\n    def __init__(self, size: int):\n"
                      "        self.size = size\n")


@pytest.mark.parametrize("in_place", [False, True])
def test_sync_refuses_to_drop_an_assigned_parameter(capsys, tmp_path,
                                                    in_place):
    # the new signature (count, extra) drops 'size', which line 3 still
    # assigns from: the written code raised NameError on A(1, 2)
    model = tmp_path / "m.puml"
    code = tmp_path / "c.py"
    model.write_text(DROPPED_PARAM_MODEL, encoding="utf-8")
    code.write_text(DROPPED_PARAM_CODE, encoding="utf-8")
    out_dir = tmp_path / "out"
    where = ["--in-place"] if in_place else ["--out-dir", out_dir]
    status, out, err = run(capsys, "sync", model, code,
                           "--policy", "model-wins", *where)
    assert status == 1
    assert f"{code}:3:" in err and "'size'" in err
    assert "wrote" not in out
    assert not out_dir.exists()
    assert code.read_text(encoding="utf-8") == DROPPED_PARAM_CODE
    assert model.read_text(encoding="utf-8") == DROPPED_PARAM_MODEL


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
