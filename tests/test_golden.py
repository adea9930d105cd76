"""Byte-for-byte golden outputs of the CLI on the bundled fixtures.

Each case runs ``modelsync`` in-process from a fixed working directory
holding a copy of ``fixtures/``, with relative paths only, and compares
the exit status, stdout, stderr and every written file with the files
under ``tests/golden/<case>/``.  Regenerate them, after a deliberate
change of output, with:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from modelsync.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

PAIRS = {
    "v1": ("fixtures/library_v1_drifted_model.puml",
           "fixtures/library_v1_drifted_code.py"),
    "v2": ("fixtures/library_v2_model.puml",
           "fixtures/library_v2_code.py"),
    # the v1 design against the v2 code: the drift of the paper's two
    # library versions
    "cross": ("fixtures/library_v1_model.puml",
              "fixtures/library_v2_code.py"),
}
POLICIES = ("model-wins", "code-wins", "union")


def _cases() -> dict[str, tuple[list[str], list[str]]]:
    """Case name -> (argv, files the run writes, relative to the cwd)."""
    cases: dict[str, tuple[list[str], list[str]]] = {}
    for pair, (model, code) in PAIRS.items():
        cases[f"{pair}-check"] = (["check", model, code], [])
        cases[f"{pair}-check-json"] = (["check", model, code, "--json"], [])
        for policy in POLICIES:
            out = f"out/{pair}-{policy}"
            cases[f"{pair}-sync-{policy}"] = (
                ["sync", model, code, "--policy", policy, "--out-dir", out],
                [f"{out}/{Path(model).name}", f"{out}/{Path(code).name}"])
    cases["gen-json"] = (
        ["gen", "fixtures/library_problem.txt", "--what", "both",
         "--transport", "fixtures", "--fixtures-dir", "fixtures/llm",
         "--out-dir", "out/gen", "--json"],
        ["out/gen/model.puml", "out/gen/code.py"])
    for model in ("library_v1_model.puml", "library_v2_merged_model.puml"):
        cases[f"gen-code-{Path(model).stem}"] = (
            ["gen-code", f"fixtures/{model}"], [])
    cases["render-library_v1_drifted_model"] = (
        ["render", "fixtures/library_v1_drifted_model.puml"], [])
    for code in ("library_v1_drifted_code.py", "library_v2_code.py"):
        cases[f"extract-{Path(code).stem}"] = (
            ["extract", f"fixtures/{code}"], [])
    return cases


CASES = _cases()


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; returns golden file name -> bytes,
    for each file the run wrote."""
    argv, written = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        result = {"exit": f"{status}\n".encode(),
                  "stdout": out.getvalue().encode("utf-8"),
                  "stderr": err.getvalue().encode("utf-8")}
        # a sync that does not converge writes nothing
        for path in map(Path, written):
            if path.exists():
                result[path.name] = path.read_bytes()
    finally:
        os.chdir(cwd)
    return result


def _workdir(root: Path) -> Path:
    shutil.copytree(FIXTURES, root / "fixtures")
    return root


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return _workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(workdir, name):
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in expected_dir.iterdir()}
    assert run_case(name, workdir) == expected


def test_module_entry_point_matches_golden(tmp_path):
    """``python -m modelsync.cli`` in a fresh interpreter prints and writes
    the in-process golden bytes.  Only there is the CLI ``__main__``, which
    imports the write path when ``sync`` runs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    workdir = _workdir(tmp_path)
    for name in ("v1-check-json", "v1-sync-model-wins", "gen-json"):
        argv, written = CASES[name]
        done = subprocess.run([sys.executable, "-m", "modelsync.cli", *argv],
                              cwd=workdir, env=env, capture_output=True)
        result = {"exit": f"{done.returncode}\n".encode(),
                  "stdout": done.stdout, "stderr": done.stderr}
        for path in written:
            result[Path(path).name] = (workdir / path).read_bytes()
        assert result == {p.name: p.read_bytes()
                          for p in (GOLDEN / name).iterdir()}, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        work = _workdir(Path(tmp))
        for case in sorted(CASES):
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file_name, data in run_case(case, work).items():
                (target / file_name).write_bytes(data)
            print(f"wrote {target}", file=sys.stderr)
