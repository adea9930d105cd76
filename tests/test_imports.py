"""Importing the library loads no standard module it does not use.

``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each command pays that import, so the records are
``NamedTuple``s and slotted classes instead.  ``hashlib`` maps OpenSSL
into the process, about 3.5 MB of peak RSS, so digests come from
CPython's own SHA-256 module (``model.sha256_hex``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
