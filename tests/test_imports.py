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
``modelsync.cli.REPORT_JSON_SCHEMA`` is read.  ``propose`` copies members
through the records rather than ``copy.deepcopy``, and ``apply`` puts
those copies in the model as they are, so no command loads ``copy``.
Each library module also reads every name its module-level imports bind.
"""

from __future__ import annotations

import ast
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
    # only a constructor body that spells a parameter its new signature
    # drops is tokenized, and no bundled pair's does
    assert "tokenize" not in loaded


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


@pytest.mark.parametrize("command", ["check", "gen", "sync"])
def test_no_command_loads_copy(tmp_path, command):
    argv = {"check": ["check", *V1_PAIR, "--json"],
            "gen": ["gen", "fixtures/library_problem.txt", "--transport",
                    "fixtures", "--fixtures-dir", "fixtures/llm",
                    "--out-dir", str(tmp_path / "gen")],
            "sync": ["sync", *V1_PAIR, "--policy", "model-wins",
                     "--out-dir", str(tmp_path / "out")]}[command]
    loaded = _loaded_by_command(argv, ROOT)
    assert "modelsync.correction" in loaded
    assert "copy" not in loaded


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


def _module_imports(tree: ast.Module):
    """The names the module-level imports of ``tree`` bind, with their
    lines, those in ``try``/``except`` fallbacks included."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                yield bound, node.lineno


def test_library_imports_only_what_it_uses():
    """Each module-level import of ``src/modelsync`` is read somewhere in
    its module; a name the package lists in ``__all__`` counts as read."""
    unused = []
    for path in sorted((SRC / "modelsync").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _module_imports(tree)
                   if name not in read]
    assert unused == []


def _module_level_names(tree: ast.Module):
    """The names the module-level definitions and assignments of ``tree``
    bind, with their lines, those under ``try`` and ``if`` included."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Try, ast.If)):
            pending += node.body + node.orelse
            pending += [n for h in getattr(node, "handlers", ())
                        for n in h.body]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for name in (n for t in targets for n in ast.walk(t)):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def test_library_private_names_are_read():
    """Each module-level private name of ``src/modelsync`` is read
    somewhere in the library: as a name, as an attribute or through an
    import.  A helper that a refactor leaves behind fails here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "modelsync").glob("*.py"))}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    private = [(name, f"{module}:{line}: {name}")
               for module, tree in trees.items()
               for name, line in _module_level_names(tree)
               if name.startswith("_") and not name.startswith("__")]
    assert len(private) >= 100  # the walk reaches the modules' names
    assert [where for name, where in private if name not in read] == []
