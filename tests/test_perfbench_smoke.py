"""The benchmark's self-test, so a library change cannot silently break
the benchmark's correctness gates.  It takes a few seconds."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    if not (ROOT / "perfbench" / "selftest.py").is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
