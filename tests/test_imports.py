"""Importing the library loads no standard module it does not use.

``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each command pays that import, so the records are
``NamedTuple``s and slotted classes instead.  ``hashlib`` maps OpenSSL
into the process, about 3.5 MB of peak RSS, so digests come from
CPython's own SHA-256 module (``model.sha256_hex``).

The benchmark also runs each command without a bytecode cache, so every
module a command imports is compiled on every run.  The write path
(``modelsync.repair`` and ``modelsync.pywrite``) is therefore imported only
by the commands that write, when they run; the old import paths of its
names forward to it.  ``check --json`` writes its report with its own
writer, so neither ``check`` nor ``sync`` imports ``json``, and the report
schema (``modelsync.report_schema``) is loaded only when
``modelsync.cli.REPORT_JSON_SCHEMA`` is read.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
V1_PAIR = ["fixtures/library_v1_drifted_model.puml",
           "fixtures/library_v1_drifted_code.py"]
# the moved public names, by the module they used to live in, with the
# module that holds them now
MOVED = {
    "modelsync": {"Policy": "repair", "apply": "repair", "resolve": "repair",
                  "CodeEdit": "pywrite", "apply_code_edits": "pywrite",
                  "render_code_skeleton": "pywrite"},
    "modelsync.correction": {"Policy": "repair", "apply": "repair",
                             "resolve": "repair"},
    "modelsync.pycode": {name: "pywrite" for name in (
        "CodeEdit", "apply_code_edits", "block_delete_span", "body_indent",
        "member_indent", "render_class_stub", "render_code_skeleton")},
}


def _loaded_after(statement: str) -> set[str]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_library_import_loads_no_dataclasses_or_inspect():
    bare = _loaded_after("pass")
    loaded = _loaded_after("import modelsync.cli, modelsync.llm")
    assert {"modelsync.cli", "modelsync.llm"} <= loaded
    assert not {"dataclasses", "inspect"} & (loaded - bare)


def test_library_import_loads_no_openssl():
    bare = _loaded_after("pass")
    loaded = _loaded_after("import modelsync.cli, modelsync.llm")
    assert not {"hashlib", "_hashlib", "ssl"} & (loaded - bare)


def test_cli_import_leaves_llm_unloaded():
    # only ``gen`` needs it, and it imports it when it runs
    loaded = _loaded_after("import modelsync.cli")
    assert "modelsync.cli" in loaded
    assert "modelsync.llm" not in loaded


def _loaded_by_command(argv: list[str], cwd: Path) -> set[str]:
    """The modules a fresh ``python -m modelsync.cli`` process imports, as
    ``-X importtime`` lists them.  The CLI module itself runs as
    ``__main__``, so it is listed only when something imports it again."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "modelsync.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode in (0, 1), done.stderr
    return set(re.findall(r"^import time:\s*\d+\s*\|\s*\d+\s*\|\s*(\S+)$",
                          done.stderr, re.MULTILINE))


@pytest.mark.parametrize("command", ["check", "gen", "sync", "gen-code"])
def test_only_writing_commands_load_the_write_path(tmp_path, command):
    argv = {
        "check": ["check", *V1_PAIR],
        "gen": ["gen", "fixtures/library_problem.txt", "--transport",
                "fixtures", "--fixtures-dir", "fixtures/llm",
                "--out-dir", str(tmp_path / "gen")],
        "sync": ["sync", *V1_PAIR, "--policy", "model-wins",
                 "--out-dir", str(tmp_path / "out")],
        "gen-code": ["gen-code", V1_PAIR[0]],
    }[command]
    loaded = _loaded_by_command(argv, ROOT)
    assert {"modelsync.consistency", "modelsync.correction"} <= loaded
    assert ("modelsync.repair" in loaded) is (command == "sync")
    assert ("modelsync.pywrite" in loaded) is (command in ("sync",
                                                           "gen-code"))
    assert ("modelsync.llm" in loaded) is (command == "gen")
    # an import of the CLI from the library would compile and run it twice
    assert "modelsync.cli" not in loaded


def test_package_import_leaves_the_write_path_unloaded():
    loaded = _loaded_after("import modelsync")
    assert "modelsync.correction" in loaded
    assert not {"modelsync.repair", "modelsync.pywrite",
                "modelsync.llm"} & loaded


def test_moved_names_are_the_write_paths_own():
    for module, names in MOVED.items():
        owner = importlib.import_module(module)
        for name, holder in names.items():
            new = importlib.import_module(f"modelsync.{holder}")
            assert getattr(owner, name) is getattr(new, name), \
                f"{module}.{name}"
    from modelsync import pywrite, repair
    from modelsync.correction import apply, resolve
    from modelsync.pycode import apply_code_edits, render_code_skeleton
    assert apply is repair.apply and resolve is repair.resolve
    assert apply_code_edits is pywrite.apply_code_edits
    assert render_code_skeleton is pywrite.render_code_skeleton
    # the splice that ``apply`` calls is the one the old path names
    assert repair.apply_code_edits is apply_code_edits
    star: dict[str, object] = {}
    exec("from modelsync import *", star)
    assert star["apply"] is repair.apply
    assert star["render_code_skeleton"] is pywrite.render_code_skeleton


@pytest.mark.parametrize("module", sorted(MOVED))
def test_unknown_names_still_raise_attribute_error(module):
    owner = importlib.import_module(module)
    with pytest.raises(AttributeError, match="no_such_name"):
        owner.no_such_name
    assert not hasattr(owner, "_offset")  # private names do not forward
    with pytest.raises(ImportError):
        exec(f"from {module} import no_such_name", {})


@pytest.mark.parametrize("command", ["check", "sync"])
def test_check_and_sync_load_no_json(tmp_path, command):
    argv = {"check": ["check", *V1_PAIR, "--json"],
            "sync": ["sync", *V1_PAIR, "--policy", "model-wins",
                     "--out-dir", str(tmp_path / "out")]}[command]
    loaded = _loaded_by_command(argv, ROOT)
    assert "modelsync.consistency" in loaded
    assert not {"json", "json.decoder", "json.scanner", "json.encoder",
                "modelsync.report_schema"} & loaded


def test_report_schema_loads_when_read():
    assert "modelsync.report_schema" not in _loaded_after(
        "import modelsync.cli")
    assert "modelsync.report_schema" in _loaded_after(
        "from modelsync.cli import REPORT_JSON_SCHEMA")
    from modelsync import cli, report_schema
    from modelsync.cli import REPORT_JSON_SCHEMA
    assert REPORT_JSON_SCHEMA is report_schema.REPORT_JSON_SCHEMA
    assert REPORT_JSON_SCHEMA["properties"]["version"] == {"const": 1}
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
